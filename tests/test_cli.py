"""Command-line runner: config validation, artifacts, determinism, exit codes."""

import copy
import json
import os

import numpy as np
import pytest

from mcfprof import diagnostics as dg
from mcfprof.cli import (EXIT_CONFIG, EXIT_INCONCLUSIVE, EXIT_NUMERICAL, EXIT_OK,
                         _dump_json, _harnack_report, _jsonable, _snapshot_from_obj,
                         _snapshot_obj, main, models_check, validate_config)
from mcfprof.errors import ConfigError, WindowError
from mcfprof.flow import Trajectory
from mcfprof.geometry import FlowSnapshot
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
     "initial.perturb"),
])
def test_validate_config_field_paths(raw, field):
    with pytest.raises(ConfigError) as info:
        validate_config(raw)
    assert info.value.field == field


def test_diagnostics_list_form_normalized():
    cfg = validate_config({"name": "x", "initial": {"sphere": {"R0": 1.0}},
                           "diagnostics": ["noncollapse", "pinching"]})
    assert cfg["diagnostics"] == {"noncollapse": True, "pinching": True}


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


@pytest.mark.parametrize("obj", list(ENCODER_CASES.values()), ids=list(ENCODER_CASES))
def test_dump_json_matches_json_module(tmp_path, obj):
    path = tmp_path / "out.json"
    _dump_json(str(path), obj)
    expected = json.dumps(_jsonable(obj), sort_keys=True, indent=1) + "\n"
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
    _harnack_report(Trajectory(snaps, "t-end", None), {"H_threshold": 1e-3})
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


def test_analyze_blowup_at_prints_analysis_json(tmp_path, capsys):
    _, out = run_scenario(tmp_path, BASE_CFG, "pr")
    last = json.loads(sorted((out / "snapshots").iterdir())[-1].read_text())
    capsys.readouterr()
    assert main(["analyze", str(out), "--blowup-at", f"x=0.0,t={last['t']}"]) == EXIT_OK
    printed = capsys.readouterr().out
    assert printed == (out / "analysis.json").read_text()
    result = json.loads(printed)
    assert printed == json.dumps(result, sort_keys=True, indent=1) + "\n"


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
    ('{"model": {"kind": "cylinder", "params": {"m": 5}}}', None),
    ('{"model": {"kind": "sphere", "params": [1.0]}}', None),
    ('{"model": {"kind": "grim-reaper-product", "params": {}}}', None),
    ('{"model": {"kind": "bowl-soliton", "params": {}}}', None),
    (PROFILE_FILE, {"z": [-1.0, 0.0, 1.0], "r": [0.0, 1.0, 0.0]}),
    (PROFILE_FILE, {"r": [0.0] + [float("nan")] * 62 + [0.0]}),
    (PROFILE_FILE, {"r": list(0.1 + np.sin(np.linspace(0.0, np.pi, 64)))}),
    (PROFILE_FILE, {"r": [0.0] + [0.5] * 8 + [0.0]}),
    (PROFILE_FILE, {"n": 1}),
], ids=["amplitude-string", "R0-overflow", "R0-bool", "R0-huge-int", "amplitude-huge-int",
         "amplitude-1e300", "amplitude-cusps", "R0-tiny",
         "model-kind", "cylinder-m", "model-params-list", "model-grim-reaper", "model-bowl",
         "profile-3-nodes", "profile-nan", "profile-off-axis", "profile-length-mismatch",
         "profile-n1"])
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


def test_exit_code_unwritable_output(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a plain file where a directory component is needed
    code = main(["run", "--config", write_cfg(tmp_path, BASE_CFG),
                 "--out", str(blocker / "sub")])
    assert code == EXIT_CONFIG


def test_exit_code_inconclusive_writes_partial(tmp_path):
    cfg = dict(BASE_CFG)
    cfg["step"] = {"dt_min": 1.0, "A2_stop": 1e4}
    code, out = run_scenario(tmp_path, cfg, "inc")
    assert code == EXIT_INCONCLUSIVE
    assert (out / "manifest.json").is_file()
    assert (out / "timeseries.csv").is_file()


def test_analyze_rejects_non_run_dir(tmp_path):
    assert main(["analyze", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("manifest_text, snapshot", [
    (None, {"t": 0.0, "topology": "graph"}),
    ("{not json", None),
    (None, {"t": 0.0, "n": 2, "topology": "weird", "z": [0.0] * 8, "r": [1.0] * 8}),
], ids=["graph-snapshot", "manifest-not-json", "unknown-topology"])
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


def test_models_table_in_tolerance(capsys):
    assert models_check() == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 6
    assert all(l.startswith("PASS") for l in lines)


def test_exit_code_singular_step_system(tmp_path, monkeypatch, capsys):
    from mcfprof import flow

    def singular(dl, d, du, b, *args, **kwargs):
        return dl, d, du, b, 1  # LAPACK info > 0: zero pivot in row 1

    monkeypatch.setattr(flow, "dgtsv", singular)
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
               {"ovaloid": {"a": rng.uniform(1.0, 2.0), "b": rng.uniform(0.5, 1.0)}},
               {"model": {"kind": "cylinder", "params": {"m": 1}}}][rng.integers(5)]
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
    code = main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_INCONCLUSIVE)
    assert "Traceback" not in capsys.readouterr().err
