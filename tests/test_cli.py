"""Command-line runner: config validation, artifacts, determinism, exit codes."""

import copy
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mcfprof import cli
from mcfprof import diagnostics as dg
from mcfprof.cli import (EXIT_CONFIG, EXIT_INCONCLUSIVE, EXIT_NUMERICAL, EXIT_OK,
                         _dump_json, _harnack_report, _jsonable, _snapshot_from_obj,
                         _snapshot_obj, main, models_check, validate_config)
from mcfprof.errors import ConfigError, WindowError
from mcfprof.flow import StepControl, Trajectory, run_until
from mcfprof.geometry import FlowSnapshot, nearest_node
from mcfprof.rescale import FIT_WINDOW, fit_model
from mcfprof.shapes import (cylinder_profile, dumbbell_profile, ovaloid_profile, perturb_profile,
                            sphere_profile)

BASE_CFG = {
    "name": "small-sphere",
    "n": 2,
    "initial": {"sphere": {"R0": 1.0}},
    "nodes": 200,
    "step": {"A2_stop": 2.0 / 0.05**2},
    "diagnostics": {"noncollapse": True, "ratioA2H2": True, "distance-scaling": True},
    "seed": 0,
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_validate_defaults():
    cfg = validate_config({"name": "x", "initial": {"cylinder": {"R0": 0.5}}})
    assert cfg["n"] == 2 and cfg["nodes"] == 400 and cfg["seed"] == 0
    assert abs(cfg["initial"]["cylinder"]["period"] - np.pi) < 1e-15


@pytest.mark.parametrize("raw, field", [
    ({}, "name"),
    ({"name": "x"}, "initial"),
    ({"name": "x", "initial": {"torus": {}}}, "initial.torus"),
    ({"name": "x", "initial": {"sphere": {}}}, "initial.sphere.R0"),
    ({"name": "x", "initial": {"sphere": {"R0": -1.0}}}, "initial.sphere.R0"),
    ({"name": "x", "initial": {"dumbbell": {"bulb_R": 0.2, "neck_r": 0.5, "length": 4.0}}},
     "initial.dumbbell.neck_r"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "step": {"dt": 0.1}}, "step.dt"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "diagnostics": {"magic": True}},
     "diagnostics.magic"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "nodes": 4}, "nodes"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "seed": "a"}, "seed"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}},
      "diagnostics": {"blowup": {"points-rule": "bogus"}}}, "diagnostics.blowup.points-rule"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}},
      "diagnostics": {"blowup": {"count": "x"}}}, "diagnostics.blowup.count"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}},
      "diagnostics": {"blowup": {"count": 0}}}, "diagnostics.blowup.count"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}},
      "diagnostics": {"blowup": {"window": -2.0}}}, "diagnostics.blowup.window"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}},
      "diagnostics": {"blowup": {"rule": "neck"}}}, "diagnostics.blowup.rule"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}},
      "diagnostics": {"harnack": {"R": "a"}}}, "diagnostics.harnack.R"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}},
      "diagnostics": {"harnack": {"H_threshold": float("inf")}}}, "diagnostics.harnack.H_threshold"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}},
      "diagnostics": {"harnack": {"radius": 1.0}}}, "diagnostics.harnack.radius"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "step": {"A2_stop": "big"}}, "step.A2_stop"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "step": {"t_end": None}}, "step.t_end"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "step": {"dt_min": 0.0}}, "step.dt_min"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "step": {"refine_target": -0.1}},
     "step.refine_target"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "step": {"max_nodes": 4}}, "step.max_nodes"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "step": {"max_nodes": 100.0}},
     "step.max_nodes"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "step": {"cfl": 0.5}}, "step.cfl"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "step": {"refine": False}}, "step.refine"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "step": {"resample_ratio": 2.0}},
     "step.resample_ratio"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "n": 10**20}, "n"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "n": True}, "n"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "seed": -1}, "seed"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}, "perturb": {"modes": 10**9}}},
     "initial.perturb.modes"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "step": {"max_nodes": 10**6 + 1}},
     "step.max_nodes"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "nodes": 10**6 + 1}, "nodes"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "output_dir": 5}, "output_dir"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "node": 100}, "node"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "diagnostics": ["noncollapse"]},
     "diagnostics"),
    ({"name": "x", "initial": {"model": {"kind": "sphere", "params": {"R0": 1.0}}}},
     "initial.model"),
    ({"name": "x", "initial": {"sphere": {"R0": 1, "R": 5}}}, "initial.sphere.R"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}, "perturb": {"amplitude": 0.01, "mode": 9}}},
     "initial.perturb.mode"),
    ({"name": "x", "initial": {"dumbbell": {"bulb_R": 1, "neck_r": 0.35, "length": 8,
                                            "path": [1]}}}, "initial.dumbbell.path"),
    ({"name": "x", "initial": {"profile-file": {"path": "profile.json", "R0": 1.0}}},
     "initial.profile-file.R0"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "diagnostics": {"noncollapse": {"foo": 1}}},
     "diagnostics.noncollapse.foo"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "diagnostics": {"harnack": 5}},
     "diagnostics.harnack"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "diagnostics": {"blowup": "yes"}},
     "diagnostics.blowup"),
    ({"name": "x", "initial": {"sphere": {"R0": 1.0}}, "diagnostics": {"pinching": [1]}},
     "diagnostics.pinching"),
    # open() takes an integer as a file descriptor: 0 reads stdin, 1 and 2 would be closed
    ({"name": "x", "initial": {"profile-file": {"path": 0}}}, "initial.profile-file.path"),
    ({"name": "x", "initial": {"profile-file": {"path": 2}}}, "initial.profile-file.path"),
    ({"name": "x", "initial": {"profile-file": {"path": True}}}, "initial.profile-file.path"),
    ({"name": "x", "initial": {"profile-file": {"path": ""}}}, "initial.profile-file.path"),
])
def test_validate_config_field_paths(raw, field):
    with pytest.raises(ConfigError) as info:
        validate_config(raw)
    assert info.value.field == field


def _workload_configs():
    """The benchmark's two workload configs at seeds 0 and 1."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [work["config"](seed) for work in module.WORKLOADS.values() for seed in (0, 1)]


@pytest.mark.parametrize("raw", [
    BASE_CFG, *_workload_configs(),
    {"name": "x", "n": 3, "initial": {"profile-file": {"path": "profile.json"},
                                      "perturb": {}}, "diagnostics": {"blowup": True}},
], ids=["base", "neckpinch-0", "neckpinch-1", "sphere400-0", "sphere400-1", "profile-file"])
def test_validate_config_returns_a_resolved_config_unchanged(raw):
    cfg = validate_config(raw)
    assert validate_config(cfg) == cfg


def test_validate_config_fills_every_default():
    cfg = validate_config({"name": "x", "initial": {"sphere": {"R0": 1.0}, "perturb": {}},
                           "step": {"t_end": 0.1},
                           "diagnostics": {"harnack": True, "blowup": {"count": 2},
                                           "noncollapse": {}, "pinching": False}})
    assert cfg["initial"]["perturb"] == {"amplitude": 0.0, "modes": 3}
    assert cfg["step"] == {"dt_min": 1e-13, "A2_stop": 1e4, "t_end": 0.1,
                           "refine_target": 0.15, "max_nodes": 20000}
    # StepControl's t_end default is None: no end time, so none is echoed
    assert validate_config({"name": "x", "initial": {"sphere": {"R0": 1.0}}})["step"] == {
        "dt_min": 1e-13, "A2_stop": 1e4, "refine_target": 0.15, "max_nodes": 20000}
    assert cfg["diagnostics"] == {
        "harnack": {"R": 1.0, "H_threshold": 10.0},
        "blowup": {"points-rule": "neck", "count": 2, "window": FIT_WINDOW},
        "noncollapse": {}}


def _dicts(obj):
    """Every dict nested in a config, the config itself included."""
    if isinstance(obj, dict):
        yield obj
        for val in obj.values():
            yield from _dicts(val)


@pytest.mark.parametrize("raw", [
    {"name": "x", "initial": {"cylinder": {"R0": 1}}},
    {"name": "x", "initial": {"dumbbell": {"bulb_R": 1, "neck_r": 0.35, "length": 8},
                              "perturb": {"amplitude": 0.005, "modes": 3}},
     "step": {"A2_stop": 2e4}, "diagnostics": {"harnack": {"R": 1.0}, "noncollapse": True}},
    {"name": "x", "n": 3, "initial": {"profile-file": {"path": "profile.json"}}},
])
def test_validate_config_leaves_its_input_alone(raw):
    before = copy.deepcopy(raw)
    cfg = validate_config(raw)
    assert raw == before
    assert not {id(d) for d in _dicts(raw)} & {id(d) for d in _dicts(cfg)}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_jsonable_nonfinite_as_strings():
    out = _jsonable({"a": float("nan"), "b": np.inf, "c": np.float64(1.5)})
    assert out == {"a": "nan", "b": "inf", "c": 1.5}


def test_snapshot_roundtrip_profile():
    snap = FlowSnapshot(cylinder_profile(0.7, np.pi, 2, 64), 0.3)
    back = _snapshot_from_obj(json.loads(json.dumps(_jsonable(_snapshot_obj(snap, 0)))))
    assert np.array_equal(back.surface.z, snap.surface.z)
    assert np.array_equal(back.surface.r, snap.surface.r)
    assert back.surface.period == snap.surface.period and back.t == 0.3


NAN, INF = float("nan"), float("inf")
ENCODER_CASES = {
    "empty": [{}, [], (), {"a": {}, "b": [], "c": [[], {}, ()]}],
    "nested": {"z": {"y": [1, [2.5, {"x": [0.25, -1.0]}]], "a": []}, "m": [[1.0, 2.0], [3.0]]},
    "nonfinite": {"a": [1.5, NAN, -INF, INF], "b": np.array([0.0, -0.0, NAN, 2.0]),
                  "c": [-0.0, 1e-300, 1.7976931348623157e308, 5e-324], "d": NAN, "e": -INF},
    "numpy": {"i": np.int64(3), "b": np.bool_(True), "f": np.float64(0.1),
              "ia": np.arange(4), "ba": np.array([True, False]), "f32": np.float32(0.1),
              "fa32": np.array([0.1, 2.5], dtype=np.float32), "u2": np.eye(2),
              "scalar": np.array(7.5), "mix": [np.float64(0.3), 0.7, np.float64(-2.0)]},
    "long": {"a": np.linspace(-3.0, 3.0, 2 * 1024 + 5) ** 3, "b": [0.1 * k for k in range(1025)],
             "c": np.arange(2049.0), "d": np.r_[np.ones(1500), np.nan]},
    "misc": {1: (1.0, 2.0), 2: None, "q": 'naïve "quoted" \\ \u2603', "é": [True, 1, "x", 2.0],
             "t": (None, (3, 4.0)), "big": 10**30},
    "dumbbell-snapshot": _snapshot_obj(FlowSnapshot(
        perturb_profile(dumbbell_profile(1.0, 0.35, 8.0, 2, 200), 0.005, 3, 1), 0.125), 0),
}


@pytest.mark.parametrize("obj, indent", [
    pytest.param(obj, indent, id=name if indent else f"{name}-compact")
    for name, obj in ENCODER_CASES.items() for indent in (1, None)])
def test_dump_json_matches_json_module(tmp_path, obj, indent):
    path = tmp_path / "out.json"
    _dump_json(str(path), obj, indent=indent)
    expected = json.dumps(_jsonable(obj), sort_keys=True, indent=indent) + "\n"
    assert path.read_bytes() == expected.encode()


# ---------------------------------------------------------------------------
# run artifacts and determinism
# ---------------------------------------------------------------------------

def run_scenario(tmp_path, cfg, sub):
    out = tmp_path / sub
    code = main(["run", "--config", write_cfg(tmp_path, cfg, sub + ".json"),
                 "--out", str(out)])
    return code, out


def test_run_writes_artifacts(tmp_path):
    code, out = run_scenario(tmp_path, BASE_CFG, "a")
    assert code == EXIT_OK
    assert (out / "timeseries.csv").is_file()
    assert (out / "report.json").is_file()
    assert (out / "manifest.json").is_file()
    assert sorted((out / "snapshots").iterdir())
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stop_reason"] == "curvature-threshold"
    assert abs(manifest["T_sing"] - 0.25) < 0.25 * 0.01
    report = json.loads((out / "report.json").read_text())
    assert set(report["diagnostics"]) == {"noncollapse", "ratioA2H2", "distance-scaling"}
    assert report["diagnostics"]["ratioA2H2"]["nonincreasing"] is True
    # a profile file sampled far from uniformly in arclength is respaced by the run
    _sphere_file(tmp_path / "profile.json", theta=np.pi * np.linspace(0.0, 1.0, 200) ** 2)
    cfg = dict(BASE_CFG, initial={"profile-file": {"path": str(tmp_path / "profile.json")}})
    code, out = run_scenario(tmp_path, cfg, "file")
    assert code == EXIT_OK
    T = json.loads((out / "manifest.json").read_text())["T_sing"]
    assert abs(T - 0.25) < 0.25 * 0.01


def test_perturbed_periodic_cylinder_flows_to_extinction(tmp_path):
    # each perturbation mode is periodic in the profile's own period, so r does not
    # jump at the wrap and the run does not stop at t = 0 on a seam spike
    cfg = {"name": "wavy-cylinder", "n": 2, "nodes": 400, "seed": 2,
           "initial": {"cylinder": {"R0": 1.0, "period": 3.14159},
                       "perturb": {"amplitude": 0.05, "modes": 3}}}
    code, out = run_scenario(tmp_path, cfg, "wavy")
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["run_stats"]["steps"] > 0
    assert abs(manifest["T_sing"] - 0.5) < 0.01 * 0.5  # R0^2 / 2


def test_blowup_fits_are_cylinder_and_sphere(tmp_path):
    cfg = dict(BASE_CFG, diagnostics={"blowup": {"points-rule": "max-curvature", "count": 3}})
    code, out = run_scenario(tmp_path, cfg, "fits")
    assert code == EXIT_OK
    fits = json.loads((out / "report.json").read_text())["diagnostics"]["blowup"]["fits"]
    assert set(fits) == {"best", "cylinder", "sphere", "window"}
    assert fits["best"] == "sphere" and fits["window"] == FIT_WINDOW
    last = _snapshot_from_obj(json.loads(sorted((out / "snapshots").iterdir())[-1].read_text()))
    with pytest.raises(ValueError):
        fit_model(last, "plane", origin=(0.0, 0.0), window=np.inf)


def test_manifest_run_stats(tmp_path):
    code, out = run_scenario(tmp_path, BASE_CFG, "stats")
    assert code == EXIT_OK
    stats = json.loads((out / "manifest.json").read_text())["run_stats"]
    assert stats["steps"] > 0
    assert stats["respaces"] == stats["refinements"] == 0  # a round sphere keeps its mesh
    stored = [len(json.loads(path.read_text())["z"])
              for path in sorted((out / "snapshots").iterdir())]
    assert stats["snapshot_nodes"] == stored
    assert stats["snapshot_nodes_total"] == sum(stored)
    timings = stats["timings_s"]
    assert set(timings) == {"build_initial", "run_until", "records_report", "write_artifacts"}
    assert all(np.isfinite(val) and val >= 0.0 for val in timings.values())


def test_harnack_report_records_skipped_points():
    # shrinking spheres recorded from t = 0: with R = 1 the cube of each later
    # point reaches back before t = 0, so every point is skipped with a reason
    snaps = [FlowSnapshot(sphere_profile(np.sqrt(1.0 - 4.0 * t), 2, 100), t)
             for t in (0.0, 0.05, 0.1)]
    rep = _harnack_report(Trajectory(snaps, "t-end", None), {"R": 1.0, "H_threshold": 1.0})
    assert rep["points"] == [] and "min_delta" not in rep
    assert [s["t"] for s in rep["skipped"]] == [0.05, 0.1]
    assert all(s["reason"].startswith("WindowError: parabolic cube reaches")
               for s in rep["skipped"])


def test_harnack_fallback_picks_lowest_tied_pole(monkeypatch):
    # a convex ovaloid has no waist, and its poles tie in |A|^2 up to roundoff:
    # pole N-1 a few ulps above pole 0 must not move the Harnack point
    snaps = [FlowSnapshot(ovaloid_profile(1.0, 0.6, 2, 400), t) for t in (0.0, 0.01)]
    snaps[1].curvature.A2[-1] *= 1.0 + 1e-15
    seen = []

    def record(traj, p, R):
        seen.append(p)
        raise WindowError("not evaluated")

    monkeypatch.setattr(dg, "harnack_check", record)
    _harnack_report(Trajectory(snaps, "t-end", None), {"R": 1.0, "H_threshold": 1e-3})
    assert seen == [(snaps[1].surface.z[0], 0.0, 0.01)]


def test_run_byte_determinism(tmp_path):
    _, out1 = run_scenario(tmp_path, BASE_CFG, "d1")
    _, out2 = run_scenario(tmp_path, BASE_CFG, "d2")
    names1 = sorted(os.path.relpath(os.path.join(r, f), out1)
                    for r, _, fs in os.walk(out1) for f in fs)
    names2 = sorted(os.path.relpath(os.path.join(r, f), out2)
                    for r, _, fs in os.walk(out2) for f in fs)
    assert names1 == names2
    for name in names1:
        if name == "manifest.json":
            continue  # carries wall-clock timestamps
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["files"] == m2["files"]


ALL_DIAGNOSTICS = ("noncollapse", "pinching", "ratioA2H2", "harnack", "Hevolution", "blowup",
                   "distance-scaling")


@pytest.mark.parametrize("initial", [{"sphere": {"R0": 1.0}}, {"ovaloid": {"a": 1.0, "b": 0.6}}],
                         ids=["sphere", "ovaloid"])
def test_blowup_on_data_without_a_waist(tmp_path, initial):
    # the default points rule is "neck": with no waist it takes the curvature maximum
    cfg = {"name": "no-waist", "initial": initial, "nodes": 200, "diagnostics": {"blowup": True}}
    code, out = run_scenario(tmp_path, cfg, "nowaist")
    assert code == EXIT_OK
    blowup = json.loads((out / "report.json").read_text())["diagnostics"]["blowup"]
    assert "error" not in blowup
    assert blowup["fits"]["best"] == "sphere"
    assert blowup["scales_increasing"]


def test_blowup_entry_flags_decreasing_scales(monkeypatch):
    # points in decreasing curvature order are accepted, and the entry says so
    traj = run_until(FlowSnapshot(sphere_profile(1.0, 2, 200), 0.0),
                     StepControl(A2_stop=2.0 / 0.05**2))
    select = cli.rs.select_blowup_points
    monkeypatch.setattr(cli.rs, "select_blowup_points", lambda *args: select(*args)[::-1])
    entry = cli._blowup_report(traj, {"points-rule": "max-curvature", "count": 3,
                                      "window": FIT_WINDOW})
    assert entry["scales"] == sorted(entry["scales"], reverse=True)
    assert entry["scales_increasing"] is False


def test_an_object_turns_a_diagnostic_on_with_its_defaults(tmp_path):
    cfg = dict(BASE_CFG, nodes=64, step={"A2_stop": 800.0})
    _, on = run_scenario(tmp_path, dict(cfg, diagnostics=dict.fromkeys(ALL_DIAGNOSTICS, True)),
                         "true")
    _, obj = run_scenario(tmp_path, dict(cfg, diagnostics={key: {} for key in ALL_DIAGNOSTICS}),
                          "object")
    report = json.loads((obj / "report.json").read_text())
    assert sorted(report["diagnostics"]) == sorted(ALL_DIAGNOSTICS)
    for name in ("report.json", "timeseries.csv"):
        assert (obj / name).read_bytes() == (on / name).read_bytes(), name


def test_manifest_echoes_the_resolved_config(tmp_path):
    cfg = dict(BASE_CFG, diagnostics={"harnack": True, "pinching": False})
    code, out = run_scenario(tmp_path, cfg, "echo")
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    report = json.loads((out / "report.json").read_text())
    assert manifest["config"] == validate_config(cfg)
    assert manifest["config"]["diagnostics"] == {"harnack": {"R": 1.0, "H_threshold": 10.0}}
    for key in ("stop_reason", "T_sing", "singular_point"):
        assert manifest[key] == report[key]


def test_timeseries_columns_follow_toggles(tmp_path):
    cfg = dict(BASE_CFG)
    cfg["diagnostics"] = {"pinching": True}
    _, out = run_scenario(tmp_path, cfg, "cols")
    header = (out / "timeseries.csv").read_text().splitlines()[0].split(",")
    assert header == ["t", "max_H", "min_H", "max_A2", "min_lambda1_over_H",
                      "neck_radius", "dt"]
    rows = (out / "timeseries.csv").read_text().splitlines()[1:]
    assert all(len(r.split(",")) == len(header) for r in rows)


def test_disabled_diagnostics_add_no_columns(tmp_path, monkeypatch):
    from mcfprof import diagnostics

    def forbidden(snapshot):
        raise AssertionError("noncollapsing_ratio called with noncollapse off")
    monkeypatch.setattr(diagnostics, "noncollapsing_ratio", forbidden)
    cfg = dict(BASE_CFG)
    cfg["diagnostics"] = {"noncollapse": False, "ratioA2H2": False, "pinching": False,
                          "distance-scaling": True}
    code, out = run_scenario(tmp_path, cfg, "off")
    assert code == EXIT_OK
    header = (out / "timeseries.csv").read_text().splitlines()[0].split(",")
    assert header == ["t", "max_H", "min_H", "max_A2", "neck_radius", "dt"]
    report = json.loads((out / "report.json").read_text())
    assert set(report["diagnostics"]) == {"distance-scaling"}


def test_run_computes_kappa_once_per_snapshot(tmp_path, monkeypatch):
    calls = []
    kappa = dg.noncollapsing_ratio

    def counted(snapshot):
        calls.append(snapshot.t)
        return kappa(snapshot)
    monkeypatch.setattr(dg, "noncollapsing_ratio", counted)
    code, out = run_scenario(tmp_path, dict(BASE_CFG, diagnostics={"noncollapse": True}), "once")
    assert code == EXIT_OK
    assert len(calls) == json.loads((out / "report.json").read_text())["num_snapshots"]


def csv_columns(path):
    lines = path.read_text().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return {name: [row[k] for row in rows] for k, name in enumerate(lines[0].split(","))}


def test_timeseries_and_report_render_the_same_values(tmp_path):
    cfg = dict(BASE_CFG, diagnostics={"noncollapse": True, "pinching": True, "ratioA2H2": True})
    code, out = run_scenario(tmp_path, cfg, "same")
    assert code == EXIT_OK
    header = (out / "timeseries.csv").read_text().splitlines()[0]
    assert header == ("t,max_H,min_H,max_A2,max_A2_over_H2,kappa_min,min_lambda1_over_H,"
                      "neck_radius,dt")
    cols = csv_columns(out / "timeseries.csv")
    diags = json.loads((out / "report.json").read_text())["diagnostics"]
    assert cols["kappa_min"] == [r["kappa_min"] for r in diags["noncollapse"]["series"]]
    assert cols["max_A2_over_H2"] == diags["ratioA2H2"]["max_ratio"]
    assert cols["min_lambda1_over_H"] == [r["worst_ratio"]
                                          for r in diags["pinching"]["worst_ratio_series"]]


THIN_NECK_CFG = {"name": "thin", "n": 2,
                 "initial": {"dumbbell": {"bulb_R": 1.0, "neck_r": 0.1, "length": 8.0}},
                 "nodes": 400, "step": {"A2_stop": 2e3},
                 "diagnostics": {"noncollapse": True, "pinching": True, "ratioA2H2": True}}


def test_snapshot_with_H_below_zero_has_nan_cells_and_skipped_reasons(tmp_path):
    # the thin neck has H < 0 at t = 0 only: its row holds nan, and each key says why
    code, out = run_scenario(tmp_path, THIN_NECK_CFG, "thin")
    assert code == EXIT_OK
    cols = csv_columns(out / "timeseries.csv")
    keys = ("max_A2_over_H2", "kappa_min", "min_lambda1_over_H")
    assert cols["t"][0] == 0.0 and cols["min_H"][0] < 0.0
    assert all(np.isnan(cols[key][0]) for key in keys)
    assert all(np.isfinite(cols[key][1:]).all() for key in keys)
    report_bytes = (out / "report.json").read_bytes()
    diags = json.loads(report_bytes)["diagnostics"]
    for key in ("noncollapse", "pinching", "ratioA2H2"):
        assert diags[key]["error"].startswith("DomainError: ")
        assert [s["t"] for s in diags[key]["skipped"]] == [0.0]
        assert diags[key]["skipped"][0]["reason"].startswith("DomainError: ")
    assert main(["analyze", str(out)]) == EXIT_OK
    assert (out / "report.json").read_bytes() == report_bytes


def test_rerun_into_same_dir_replaces_stale_snapshots(tmp_path):
    long_cfg = dict(BASE_CFG, diagnostics={"noncollapse": True})
    short_cfg = dict(long_cfg, step={"A2_stop": 2.0 / 0.3**2})
    _, out = run_scenario(tmp_path, long_cfg, "reuse")
    long_count = len(list((out / "snapshots").iterdir()))
    last = json.loads(sorted((out / "snapshots").iterdir())[-1].read_text())
    assert main(["analyze", str(out), "--blowup-at", f"x=0.0,t={last['t']}"]) == EXIT_OK
    assert (out / "analysis.json").is_file()
    code = main(["run", "--config", write_cfg(tmp_path, short_cfg, "short.json"),
                 "--out", str(out)])
    assert code == EXIT_OK
    names = sorted(p.name for p in (out / "snapshots").iterdir())
    assert 0 < len(names) < long_count
    report_bytes = (out / "report.json").read_bytes()
    assert json.loads(report_bytes)["num_snapshots"] == len(names)
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["files"]) == sorted(
        ["report.json", "timeseries.csv"] + [os.path.join("snapshots", n) for n in names])
    assert not (out / "analysis.json").exists()
    assert main(["analyze", str(out)]) == EXIT_OK
    assert (out / "report.json").read_bytes() == report_bytes


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_identity_rebuild(tmp_path):
    _, out = run_scenario(tmp_path, BASE_CFG, "an")
    before = (out / "report.json").read_bytes()
    (out / "report.json").unlink()
    assert main(["analyze", str(out)]) == EXIT_OK
    assert (out / "report.json").read_bytes() == before


def test_analyze_rebuilds_report_from_indented_snapshots(tmp_path):
    # snapshots are compact JSON; a run directory written with indented ones analyzes alike
    _, out = run_scenario(tmp_path, BASE_CFG, "indented")
    before = (out / "report.json").read_bytes()
    for path in (out / "snapshots").iterdir():
        text = path.read_text()
        obj = json.loads(text)
        assert text == json.dumps(obj, sort_keys=True) + "\n"
        path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")
    (out / "report.json").unlink()
    assert main(["analyze", str(out)]) == EXIT_OK
    assert (out / "report.json").read_bytes() == before


def test_analyze_reads_a_manifest_with_diagnostics_given_as_true(tmp_path):
    # a run directory whose manifest echoes the config as written analyzes alike
    _, out = run_scenario(tmp_path, BASE_CFG, "old-echo")
    before = (out / "report.json").read_bytes()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] != BASE_CFG
    (out / "manifest.json").write_text(json.dumps(dict(manifest, config=BASE_CFG)))
    (out / "report.json").unlink()
    assert main(["analyze", str(out)]) == EXIT_OK
    assert (out / "report.json").read_bytes() == before


def test_analyze_reads_only_the_snapshot_files(tmp_path):
    _, out = run_scenario(tmp_path, BASE_CFG, "stray")
    before = (out / "report.json").read_bytes()
    last = sorted((out / "snapshots").iterdir())[-1]
    (out / "snapshots" / (last.name + "~")).write_text(last.read_text())  # an editor backup
    (out / "snapshots" / "notes.txt").write_text("not a snapshot")
    (out / "report.json").unlink()
    assert main(["analyze", str(out)]) == EXIT_OK
    assert (out / "report.json").read_bytes() == before


def test_analyze_blowup_at_point(tmp_path):
    _, out = run_scenario(tmp_path, BASE_CFG, "bl")
    last = sorted((out / "snapshots").iterdir())[-1]
    obj = json.loads(last.read_text())
    j = len(obj["z"]) // 2  # equator node of the late sphere
    spec = f"x={obj['z'][j]},rho={obj['r'][j]},t={obj['t']}"
    assert main(["analyze", str(out), "--blowup-at", spec]) == EXIT_OK
    result = json.loads((out / "analysis.json").read_text())
    assert result["fits"]["best"] == "sphere"
    assert abs(result["H_origin"] - 1.0) < 0.1


def test_analyze_blowup_at_centre_is_node_nearest_axis_point(tmp_path):
    _, out = run_scenario(tmp_path, BASE_CFG, "axis")
    last = _snapshot_from_obj(json.loads(sorted((out / "snapshots").iterdir())[-1].read_text()))
    surf = last.surface
    # halfway from the centre to the top pole: the pole is the surface node nearest the
    # axis point, while the node nearest in z alone sits on the side of the sphere
    z0 = 0.75 * surf.z[-1] + 0.25 * surf.z[0]
    j = nearest_node(surf, z0, 0.0)
    assert j == surf.num_nodes - 1 != int(np.argmin(np.abs(surf.z - z0)))
    assert main(["analyze", str(out), "--blowup-at", f"x={z0},t={last.t}"]) == EXIT_OK
    result = json.loads((out / "analysis.json").read_text())
    assert (result["point"]["z"], result["point"]["rho"]) == (surf.z[j], surf.r[j])
    assert result["scale"] == last.curvature.H[j]


def test_analyze_blowup_at_prints_analysis_json(tmp_path, capsys):
    _, out = run_scenario(tmp_path, BASE_CFG, "pr")
    last = json.loads(sorted((out / "snapshots").iterdir())[-1].read_text())
    capsys.readouterr()
    assert main(["analyze", str(out), "--blowup-at", f"x=0.0,t={last['t']}"]) == EXIT_OK
    printed = capsys.readouterr().out
    assert printed == (out / "analysis.json").read_text()
    result = json.loads(printed)
    assert printed == json.dumps(result, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("window", ["-1", "0", "nan", "inf"])
def test_analyze_window_must_be_positive_finite(tmp_path, capsys, window):
    # the check of diagnostics.blowup.window, with the flag as its field
    _, out = run_scenario(tmp_path, BASE_CFG, "w")
    last = json.loads(sorted((out / "snapshots").iterdir())[-1].read_text())
    capsys.readouterr()
    code = main(["analyze", str(out), "--blowup-at", f"x=0.0,t={last['t']}",
                 "--window", window])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error (field: --window): ")
    assert not (out / "analysis.json").exists()


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "1e400"])
def test_analyze_blowup_at_must_be_finite_numbers(tmp_path, capsys, value):
    # each coordinate of the point spec, one at a time, is not a finite number
    _, out = run_scenario(tmp_path, BASE_CFG, "p")
    last = json.loads(sorted((out / "snapshots").iterdir())[-1].read_text())
    for spec in (f"x={value},t={last['t']}", f"x=0.0,t={value}",
                 f"x=0.0,t={last['t']},rho={value}"):
        capsys.readouterr()
        assert main(["analyze", str(out), "--blowup-at", spec]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error (field: --blowup-at): ")
        assert not (out / "analysis.json").exists()


def test_analyze_blowup_at_point_off_the_flow_is_inconclusive(tmp_path, capsys):
    # rho = 5 is far outside the late unit sphere: no node lies within 3h of the point
    _, out = run_scenario(tmp_path, BASE_CFG, "off")
    last = json.loads(sorted((out / "snapshots").iterdir())[-1].read_text())
    capsys.readouterr()
    code = main(["analyze", str(out), "--blowup-at", f"x=0,rho=5,t={last['t']}"])
    assert code == EXIT_INCONCLUSIVE
    err = capsys.readouterr().err
    assert err.startswith("EmptyWindowError: point (0, 5, t=") and "Traceback" not in err
    assert err.endswith(" away from the flow\n")
    assert not (out / "analysis.json").exists()


def test_analyze_window_of_one_node_is_an_error_not_nan(tmp_path, capsys):
    # rescaled spacing ~0.03 at the last snapshot: a 0.01 window holds one node
    _, out = run_scenario(tmp_path, BASE_CFG, "w1")
    last = json.loads(sorted((out / "snapshots").iterdir())[-1].read_text())
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["analyze", str(out), "--blowup-at", f"x=0.0,t={last['t']}",
                     "--window", "0.01"])
    assert code == EXIT_INCONCLUSIVE
    assert capsys.readouterr().err.startswith(
        "EmptyWindowError: the fit window holds 1 of the 3 nodes a fit needs")
    assert not (out / "analysis.json").exists()


def test_blowup_window_of_one_node_is_reported_without_warnings(tmp_path):
    cfg = dict(BASE_CFG, nodes=64, diagnostics={"blowup": {"points-rule": "max-curvature",
                                                           "window": 0.01}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_scenario(tmp_path, cfg, "b1")
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["diagnostics"]["blowup"] == {
        "error": "EmptyWindowError: the fit window holds 1 of the 3 nodes a fit needs"}


# ---------------------------------------------------------------------------
# exit codes and models table
# ---------------------------------------------------------------------------

def test_exit_code_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    missing = write_cfg(tmp_path, {"name": "x"}, "missing.json")
    assert main(["run", "--config", missing, "--out", str(tmp_path / "y")]) == EXIT_CONFIG


def _sphere_file(path, theta=np.linspace(0.0, np.pi, 64), **change):
    """A unit-sphere profile file sampled at the angles theta; ``change`` overrides fields."""
    r = np.sin(theta)
    r[0] = r[-1] = 0.0
    data = {"z": list(-np.cos(theta)), "r": list(r), "topology": "closed-through-axis"}
    data.update(change)
    path.write_text(json.dumps(data))


PROFILE_FILE = '{"profile-file": {"path": "profile.json"}}'
# with _sphere_file's r = sin(t): a closed profile that crosses itself at z = 0, r = 1/2
_T = np.linspace(0.0, np.pi, 64)
LOOPED = {"z": list(-np.cos(_T) + np.sin(2.0 * _T))}
# a periodic cylinder of radius 1 whose r is 0 at one node
PERIODIC_WITH_ZERO = {"z": list(np.linspace(0.0, 2.0, 64, endpoint=False)),
                      "r": [1.0] * 32 + [0.0] + [1.0] * 31,
                      "topology": "periodic-in-z", "period": 2.0}


@pytest.mark.parametrize("initial_text, profile_change", [
    ('{"sphere": {"R0": 1.0}, "perturb": {"amplitude": "big", "modes": 3}}', None),
    ('{"sphere": {"R0": 1e400}}', None),
    ('{"sphere": {"R0": true}}', None),
    ('{"sphere": {"R0": 1%s}}' % ("0" * 400), None),
    ('{"sphere": {"R0": 1.0}, "perturb": {"amplitude": 1%s, "modes": 3}}' % ("0" * 400), None),
    ('{"sphere": {"R0": 1.0}, "perturb": {"amplitude": 1e300, "modes": 3}}', None),
    ('{"sphere": {"R0": 1.0}, "perturb": {"amplitude": 10.0, "modes": 3}}', None),
    ('{"sphere": {"R0": 1e-300}}', None),
    ('{"model": {"kind": "nope", "params": {}}}', None),
    (PROFILE_FILE, {"z": [-1.0, 0.0, 1.0], "r": [0.0, 1.0, 0.0]}),
    (PROFILE_FILE, {"r": [0.0] + [float("nan")] * 62 + [0.0]}),
    (PROFILE_FILE, {"r": list(0.1 + np.sin(np.linspace(0.0, np.pi, 64)))}),
    (PROFILE_FILE, {"r": [0.0] + [0.5] * 8 + [0.0]}),
    (PROFILE_FILE, LOOPED),
    (PROFILE_FILE, PERIODIC_WITH_ZERO),
], ids=["amplitude-string", "R0-overflow", "R0-bool", "R0-huge-int", "amplitude-huge-int",
         "amplitude-1e300", "amplitude-cusps", "R0-tiny",
         "model-kind",
         "profile-3-nodes", "profile-nan", "profile-off-axis", "profile-length-mismatch",
         "profile-self-intersecting", "profile-periodic-zero-r"])
def test_exit_code_invalid_initial_datum(tmp_path, capsys, monkeypatch, initial_text,
                                         profile_change):
    monkeypatch.chdir(tmp_path)
    if profile_change is not None:
        _sphere_file(tmp_path / "profile.json", **profile_change)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"name": "x", "nodes": 64, "initial": %s}' % initial_text)
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error (field: initial.") and "Traceback" not in err
    if initial_text.startswith('{"model"'):  # the shapes and profile-file are the only tags
        assert err.startswith("config error (field: initial.model): unknown initial tag")
    if profile_change is PERIODIC_WITH_ZERO:
        assert err == ("config error (field: initial.profile-file): invalid initial datum: "
                       "non-positive r on a periodic profile\n")


def test_profile_file_path_is_not_a_file_descriptor(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"name": "x", "initial": {"profile-file": {"path": 2}}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error (field: initial.profile-file.path): ")
    assert "nonempty string" in err


def test_self_intersecting_profile_names_its_field(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _sphere_file(tmp_path / "profile.json", **LOOPED)
    cfg = write_cfg(tmp_path, {"name": "x", "initial": json.loads(PROFILE_FILE)})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error (field: initial.profile-file): ")
    assert "self-intersecting" in err


def test_perturbation_that_crosses_is_a_config_error(tmp_path, capsys, monkeypatch):
    """A hook whose arms lie 0.1 apart is embedded; this perturbation pushes one across."""
    monkeypatch.chdir(tmp_path)
    corners = np.array([(0, 0), (0, .5), (2, .5), (2, .6), (1, .6), (1, 1), (3, 1), (3, 0)], float)
    pts = [corners[:1]]
    for a, b in zip(corners[:-1], corners[1:]):  # about 20 nodes per unit length
        pts.append(a + (b - a) * np.linspace(0.0, 1.0, 2 + int(20 * np.hypot(*(b - a))))[1:, None])
    z, r = np.concatenate(pts).T
    (tmp_path / "profile.json").write_text(json.dumps(
        {"z": list(z), "r": list(r), "topology": "closed-through-axis"}))
    initial = dict(json.loads(PROFILE_FILE), perturb={"amplitude": 0.2, "modes": 3})
    cfg = write_cfg(tmp_path, {"name": "x", "initial": initial, "seed": 5})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error (field: initial.perturb): ")
    assert "self-intersecting" in err


def test_config_key_outside_the_schema_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(BASE_CFG, output_dir=5))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error (field: output_dir): ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tail", [["--out", "{out}", "--seed", "1"],
                                  ["--out", "{out}", "--nodes", "64"], []],
                         ids=["seed", "nodes", "no-out"])
def test_run_takes_only_config_and_out(tmp_path, tail):
    argv = ["run", "--config", write_cfg(tmp_path, BASE_CFG)]
    with pytest.raises(SystemExit) as info:
        main(argv + [arg.format(out=tmp_path / "out") for arg in tail])
    assert info.value.code == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_unreadable_config_exits_2(tmp_path, capsys):
    # a directory where the config file should be: open() raises, not json.load
    assert main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config: ") and "Traceback" not in err


@pytest.mark.parametrize("text", ["{not json", '{"r": [0.0, 1.0], "topology": "closed"}'],
                         ids=["not-json", "no-z"])
def test_unusable_profile_file_names_its_path(tmp_path, capsys, text):
    profile = tmp_path / "profile.json"
    profile.write_text(text)
    cfg = write_cfg(tmp_path, {"name": "x", "nodes": 64,
                               "initial": {"profile-file": {"path": str(profile)}}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error (field: initial.profile-file.path): bad profile file: ")
    assert "Traceback" not in err


def test_overflowing_shape_datum_names_its_tag(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"name": "x", "nodes": 64, "initial": {
        "dumbbell": {"bulb_R": 1e200, "neck_r": 0.35, "length": 8.0}}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error (field: initial.dumbbell): bad initial datum: ")
    assert "Traceback" not in err


def test_exit_code_nan_state_during_integration(tmp_path, capsys, monkeypatch):
    from mcfprof import flow

    def overflowing(z, r, *args):
        return np.full_like(z, np.inf), r

    monkeypatch.setattr(flow, "_implicit_step", overflowing)
    code, _ = run_scenario(tmp_path, BASE_CFG, "inf")
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == "numerical failure: NaN/overflow during integration\n"


def test_exit_code_unwritable_output(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a plain file where a directory component is needed
    code = main(["run", "--config", write_cfg(tmp_path, BASE_CFG),
                 "--out", str(blocker / "sub")])
    assert code == EXIT_CONFIG


def test_exit_code_inconclusive_writes_partial(tmp_path, capsys):
    cfg = dict(BASE_CFG)
    cfg["step"] = {"dt_min": 1.0, "A2_stop": 1e4}
    capsys.readouterr()
    code, out = run_scenario(tmp_path, cfg, "inc")
    assert code == EXIT_INCONCLUSIVE
    assert capsys.readouterr().err == ("inconclusive run (partial outputs written): "
                                       "time step underflowed before any singularity indicator\n")
    assert (out / "manifest.json").is_file()
    assert (out / "timeseries.csv").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stop_reason"] == "step-underflow" and manifest["T_sing"] is None


def test_analyze_rejects_non_run_dir(tmp_path):
    assert main(["analyze", str(tmp_path)]) == EXIT_CONFIG


def test_analyze_run_dir_without_snapshots(tmp_path, capsys):
    _, out = run_scenario(tmp_path, BASE_CFG, "nosnap")
    for path in (out / "snapshots").iterdir():
        path.unlink()
    capsys.readouterr()
    assert main(["analyze", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "holds no snapshot" in err
    assert "Traceback" not in err


def test_analyze_blowup_at_needs_a_time(tmp_path, capsys):
    _, out = run_scenario(tmp_path, BASE_CFG, "no-t")
    capsys.readouterr()
    assert main(["analyze", str(out), "--blowup-at", "x=0.0,rho=0.1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error (field: --blowup-at): point spec needs x=<z> and t=<time>\n"
    assert not (out / "analysis.json").exists()


def test_analyze_blowup_at_needs_a_snapshot_cascade(tmp_path, capsys):
    _, out = run_scenario(tmp_path, BASE_CFG, "few")
    for path in sorted((out / "snapshots").iterdir())[2:]:
        path.unlink()
    capsys.readouterr()
    assert main(["analyze", str(out), "--blowup-at", "x=0.0,t=0.0"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: blow-up analysis needs a snapshot cascade")
    assert "Traceback" not in err
    assert not (out / "analysis.json").exists()


SPHERE_SNAPSHOT = _jsonable(_snapshot_obj(FlowSnapshot(sphere_profile(1.0, 2, 40), 0.0), 0))


@pytest.mark.parametrize("manifest_text, snapshot", [
    (None, {"t": 0.0, "topology": "graph"}),
    ("{not json", None),
    (None, {"t": 0.0, "n": 2, "topology": "weird", "z": [0.0] * 8, "r": [1.0] * 8}),
    (None, dict(SPHERE_SNAPSHOT, r=SPHERE_SNAPSHOT["r"][:-5])),
    (None, dict(SPHERE_SNAPSHOT, r=[-v if k == 20 else v for k, v in
                                    enumerate(SPHERE_SNAPSHOT["r"])])),
], ids=["graph-snapshot", "manifest-not-json", "unknown-topology", "r-shorter-than-z",
        "interior-r-negative"])
def test_analyze_malformed_run_dir(tmp_path, capsys, manifest_text, snapshot):
    code, out = run_scenario(tmp_path, BASE_CFG, "run")
    assert code == EXIT_OK
    if manifest_text is not None:
        (out / "manifest.json").write_text(manifest_text)
    if snapshot is not None:
        (out / "snapshots" / "t_00000.json").write_text(json.dumps(snapshot))
    capsys.readouterr()
    assert main(["analyze", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
    assert snapshot is None or "t_00000.json" in err


def test_analyze_manifest_needs_its_stop_reason(tmp_path, capsys):
    # every run writes why it stopped; a manifest without it is malformed
    code, out = run_scenario(tmp_path, BASE_CFG, "run")
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["stop_reason"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["analyze", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: malformed run directory: ") and "manifest.json" in err
    assert "stop_reason" in err and "Traceback" not in err


def test_step_error_and_relandings_are_manifest_only(tmp_path):
    code, out = run_scenario(tmp_path, BASE_CFG, "stats")
    assert code == EXIT_OK
    stats = json.loads((out / "manifest.json").read_text())["run_stats"]
    assert stats["relandings"] >= 0
    assert 0.0 < stats["step_error_max"] < 1e-3
    for name in ("report.json", "timeseries.csv"):
        text = (out / name).read_text()
        assert "relanding" not in text and "step_error" not in text


@pytest.mark.parametrize("singular_point", ["absent", None])
def test_analyze_manifest_with_T_sing_needs_its_singular_point(tmp_path, capsys, singular_point):
    # a run that estimated T_sing wrote where it is; a manifest without it is malformed,
    # not a run whose distance scaling reads nan
    code, out = run_scenario(tmp_path, BASE_CFG, "run")
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["T_sing"] is not None
    if singular_point == "absent":
        del manifest["singular_point"]
    else:
        manifest["singular_point"] = singular_point
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["analyze", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: malformed run directory: ") and "manifest.json" in err
    assert "Traceback" not in err


def test_models_table_in_tolerance(capsys):
    assert models_check() == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 4
    assert all(l.startswith("PASS") for l in lines)


def test_models_table_fails_a_run_that_stops_short(capsys, monkeypatch):
    # the radius law is checked at t_end, never at the earlier time a run stopped at
    run_until = cli.run_until
    monkeypatch.setattr(cli, "run_until", lambda initial, ctl: run_until(
        initial, dataclasses.replace(ctl, dt_min=1.0)))
    assert models_check() == EXIT_NUMERICAL
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 4
    assert lines[0].startswith("PASS") and lines[1].startswith("PASS")  # the bowl rows
    for line, kind in zip(lines[2:], ("sphere", "cylinder")):
        assert line.startswith(f"FAIL  {kind} radius-law round trip (stopped by step-underflow "
                               "at t=0): ")


# runs one command on each target given on the command line (a config for `run`, a run
# directory for `analyze`), then prints the exit codes and every loaded module that the
# commands must not need: the unused scipy subpackages, the package inits of scipy and
# scipy.linalg (not its compiled _flapack module) and the numpy parts that init imports
COMMAND_IMPORTS = """
import json, sys
from mcfprof.cli import main
cmd, *targets = sys.argv[1:]
codes = [main(["run", "--config", t, "--out", t + ".out"] if cmd == "run" else [cmd, t])
         for t in targets]
unused = ("scipy.interpolate", "scipy.optimize", "scipy.integrate",
          "scipy.spatial", "scipy.special", "scipy.sparse")
heavy = ("scipy", "scipy.linalg", "numpy.f2py", "numpy.testing", "numpy.ma")
print(json.dumps({"codes": codes,
                  "loaded": sorted(m for m in sys.modules if m.startswith(unused) or m in heavy)}))
"""


def _python(script, *args):
    """The last line that script prints, run by a fresh interpreter that imports src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1]


def test_run_leaves_unused_scipy_unloaded(tmp_path):
    neck = {"name": "neck", "initial": {"dumbbell": {"bulb_R": 1.0, "neck_r": 0.35, "length": 8.0},
                                        "perturb": {"amplitude": 0.005, "modes": 3}},
            "nodes": 200, "step": {"A2_stop": 2e3},
            "diagnostics": {"blowup": {"points-rule": "neck", "count": 3}}, "seed": 1}
    cyl = {"name": "cyl", "initial": {"cylinder": {"R0": 1.0},
                                      "perturb": {"amplitude": 0.02, "modes": 3}},
           "nodes": 64, "step": {"t_end": 0.01}, "seed": 1}
    paths = [write_cfg(tmp_path, neck, "neck.json"), write_cfg(tmp_path, cyl, "cyl.json")]
    result = json.loads(_python(COMMAND_IMPORTS, "run", *paths))
    assert result == {"codes": [EXIT_OK, EXIT_OK], "loaded": []}
    # the dumbbell's blow-up term was fitted by the sphere
    report = (tmp_path / "neck.json.out" / "report.json").read_text()
    assert json.loads(report)["diagnostics"]["blowup"]["fits"]["sphere"]["rms"] > 0.0
    # analyze rebuilds the same report from the run directory, also without them
    result = json.loads(_python(COMMAND_IMPORTS, "analyze", paths[0] + ".out"))
    assert result == {"codes": [EXIT_OK], "loaded": []}
    assert (tmp_path / "neck.json.out" / "report.json").read_text() == report
    assert main(["models"]) == EXIT_OK


@pytest.mark.parametrize("order", [("scipy.linalg.lapack", "mcfprof.geometry"),
                                   ("mcfprof.geometry", "scipy.linalg.lapack")],
                         ids=["scipy-first", "geometry-first"])
def test_geometry_runs_the_gtsv_that_scipy_exposes(order):
    """The step system is solved by scipy.linalg.lapack.dgtsv itself, not by a second copy."""
    script = "".join(f"import {name}\n" for name in order) + (
        "import mcfprof.geometry as g, scipy.linalg.lapack as lapack\n"
        "print(g.dgtsv is lapack.dgtsv)")
    assert _python(script) == "True"


def test_geometry_without_flapack_names_the_folder():
    """No fallback: an install without the compiled module fails at import, naming where."""
    script = ("import importlib.machinery as m\n"
              "find = m.PathFinder.find_spec\n"
              "m.PathFinder.find_spec = staticmethod(lambda name, path=None, target=None:\n"
              "    None if name == 'scipy.linalg._flapack' else find(name, path, target))\n"
              "try:\n"
              "    import mcfprof.geometry\n"
              "except ImportError as exc:\n"
              "    print(exc)\n")
    folder = importlib.util.find_spec("scipy.linalg").submodule_search_locations
    assert _python(script) == f"scipy's compiled LAPACK module _flapack is not in {folder}"


def test_exit_code_singular_step_system(tmp_path, monkeypatch, capsys):
    from mcfprof import geometry

    def singular(dl, d, du, b, *args, **kwargs):
        return dl, d, du, b, 1  # LAPACK info > 0: zero pivot in row 1

    monkeypatch.setattr(geometry, "dgtsv", singular)
    code, _ = run_scenario(tmp_path, BASE_CFG, "sing")
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# exit-code property: a mutated config exits 0/2/3/4 and raises nothing
# ---------------------------------------------------------------------------

# values a mutation writes into a field; node counts and n only take values
# that are small or rejected, so no accepted run allocates large arrays
ANY_VALUES = [None, True, "x", [], {}, -1, 0, 0.0, 2, 2.5, -1e300, float("nan"), float("inf")]
EXTREME_VALUES = [1e-300, 1e-12, 1e-3, 1e3, 1e12, 1e300, 10**20]
SIZE_VALUES = [None, True, "x", [], -1, 0, 7, 8, 12.0, 1e300, float("nan")]
SIZE_FIELDS = {"nodes", "max_nodes", "modes", "count"}


def _tiny_config(rng):
    """A valid config of at most 64 nodes that stops by a short t_end."""
    initial = [{"sphere": {"R0": rng.uniform(0.5, 2.0)}},
               {"cylinder": {"R0": rng.uniform(0.5, 1.0), "period": rng.uniform(2.0, 4.0)}},
               {"dumbbell": {"bulb_R": 1.0, "neck_r": rng.uniform(0.3, 0.6), "length": 6.0}},
               {"ovaloid": {"a": rng.uniform(1.0, 2.0), "b": rng.uniform(0.5, 1.0)}}][rng.integers(4)]
    if rng.random() < 0.5:
        initial["perturb"] = {"amplitude": rng.uniform(0.0, 0.02), "modes": int(rng.integers(4))}
    return {"name": "prop", "n": int(rng.integers(2, 5)), "initial": initial,
            "nodes": int(rng.integers(16, 65)),
            "step": {"t_end": rng.uniform(1e-4, 2e-2), "max_nodes": 64,
                     "refine_target": rng.uniform(0.1, 1.0)},
            "diagnostics": {"noncollapse": True, "pinching": True, "ratioA2H2": True,
                            "harnack": {"R": 1.0, "H_threshold": 1.0},
                            "blowup": {"points-rule": "max-curvature", "count": 2},
                            "distance-scaling": True, "Hevolution": True},
            "seed": int(rng.integers(100))}


def _mutate(cfg, rng):
    """Replace, delete or add one field anywhere in the config tree."""
    paths, stack = [], [((), cfg)]
    while stack:
        path, node = stack.pop()
        for key in sorted(node):
            paths.append(path + (key,))
            if isinstance(node[key], dict):
                stack.append((path + (key,), node[key]))
    path = paths[rng.integers(len(paths))]
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = rng.integers(3)
    if action == 0:
        del parent[key]
    elif action == 1:
        parent["extra"] = copy.deepcopy(ANY_VALUES[rng.integers(len(ANY_VALUES))])
    else:
        pool = (SIZE_VALUES if key in SIZE_FIELDS
                else EXTREME_VALUES if rng.random() < 0.5 else ANY_VALUES)
        parent[key] = copy.deepcopy(pool[rng.integers(len(pool))])
    # a deleted size or stop field falls back to a small one, not to the defaults
    cfg.setdefault("nodes", 64)
    if isinstance(cfg.setdefault("step", {}), dict):
        cfg["step"].setdefault("t_end", 1e-3)
        cfg["step"].setdefault("max_nodes", 64)
    return cfg


def _mutated_config(seed):
    rng = np.random.default_rng(seed)
    cfg = _tiny_config(rng)
    for _ in range(int(rng.integers(1, 4))):
        cfg = _mutate(cfg, rng)
    return cfg


@pytest.mark.parametrize("seed", range(200))
def test_exit_code_property(tmp_path, capsys, seed):
    cfg = _mutated_config(seed)
    out = tmp_path / "out"
    code = main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_INCONCLUSIVE)
    assert "Traceback" not in capsys.readouterr().err
    if code == EXIT_OK:  # the run directory round-trips through analyze
        report_bytes = (out / "report.json").read_bytes()
        assert main(["analyze", str(out)]) == EXIT_OK
        assert (out / "report.json").read_bytes() == report_bytes
