import json

import numpy as np
import pytest

from aulmpm import verify
from aulmpm.cli import _parse_levels, main
from aulmpm.errors import SceneError

SCENE = {
    "grid": {"origin": [0.0, 0.0], "size": [1.0, 1.0], "cells": [20, 20]},
    "gravity": [0.0, -9.81],
    "solver": {"dt": 1e-3, "steps": 6, "frame_dt": 3e-3},
    "objects": [{
        "shape": {"type": "disk", "center": [0.5, 0.5], "radius": 0.1},
        "spacing": 0.02,
        "material": {"type": "fixed_corotated", "density": 1000.0,
                     "youngs": 1e4, "poisson": 0.3},
        "velocity": [0.2, -0.4],
    }],
}


@pytest.fixture
def scene_path(tmp_path):
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(SCENE))
    return p


def test_sim_writes_outputs(scene_path, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["sim", str(scene_path), "--out", str(out)])
    assert rc == 0
    assert (out / "summary.json").exists()
    assert (out / "stats.csv").exists()
    assert len(list((out / "frames").glob("*.csv"))) == 3
    printed = json.loads(capsys.readouterr().out)
    assert printed["steps"] == 6


def test_sim_overrides_take_the_scene_spellings(scene_path, capsys):
    rc = main(["sim", str(scene_path), "--mode", "eulerian", "--transfer", "kernel"])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["mode"] == "eulerian"
    assert printed["transfer"] == "kernel"
    assert printed["updates_total"] == 6


def test_sim_frames_override(scene_path, tmp_path):
    out = tmp_path / "short"
    rc = main(["sim", str(scene_path), "--out", str(out), "--frames", "0"])
    assert rc == 0
    assert len(list((out / "frames").glob("*.csv"))) == 1


def test_missing_scene_is_exit_2(tmp_path, capsys):
    rc = main(["sim", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_invalid_scene_is_exit_2(tmp_path, capsys):
    bad = dict(SCENE)
    bad["solver"] = {"dt": 1e-3, "steps": 6, "typo": 1}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    rc = main(["sim", str(p)])
    assert rc == 2
    assert "solver" in capsys.readouterr().err


def test_three_dimensional_scene_is_exit_2(tmp_path, capsys):
    solid = json.loads(json.dumps(SCENE))
    solid["grid"] = {"origin": [0.0, 0.0, 0.0], "size": [1.0, 1.0, 1.0],
                     "cells": [20, 20, 20]}
    p = tmp_path / "solid.json"
    p.write_text(json.dumps(solid))
    rc = main(["sim", str(p)])
    assert rc == 2
    assert "grid" in capsys.readouterr().err


def _variant(path, edit):
    raw = json.loads(json.dumps(SCENE))
    edit(raw)
    path.write_text(json.dumps(raw))
    return str(path)


def _fluid_gamma_one(raw):
    raw["objects"][0]["material"] = {"type": "weakly_compressible_fluid",
                                     "density": 1000.0, "bulk": 1e4, "gamma": 1.0}


def _wide_grid(raw):
    # 1.5 x 1 domain: a level of 8 cells along x would need 16/3 along y
    raw["grid"] = {"origin": [0.0, 0.0], "size": [1.5, 1.0], "cells": [24, 16]}


NAN = float("nan")   # written as the bare token NaN

# each malformed input with the arguments that reach it
MALFORMED = {
    "fluid_gamma_one": (_fluid_gamma_one, ["sim"]),
    "disk_without_radius": (lambda raw: raw["objects"][0]["shape"].pop("radius"), ["sim"]),
    "box_without_max": (lambda raw: raw["objects"][0].update(
        shape={"type": "box", "min": [0.4, 0.4]}), ["sim"]),
    "negative_frames": (lambda raw: None, ["sim", "--frames", "-2"]),
    "converge_level_off_aspect": (_wide_grid, ["converge", "--levels", "3..4",
                                               "--bench-level", "5"]),
    "missing_scene_file": (None, ["sim"]),
    "infinite_frame_dt": (lambda raw: raw["solver"].update(frame_dt=float("inf")),
                          ["sim"]),   # the bare token Infinity
    "nan_dt": (lambda raw: raw["solver"].update(dt=NAN), ["sim"]),
    "nan_spacing": (lambda raw: raw["objects"][0].update(spacing=NAN), ["sim"]),
    "nan_gravity": (lambda raw: raw.update(gravity=[0.0, NAN]), ["sim"]),
    "cubic_order": (lambda raw: raw["solver"].update(order="cubic"), ["sim"]),
    "cfl": (lambda raw: raw["solver"].update(cfl=0.4), ["sim"]),
    "duration": (lambda raw: raw["solver"].update(duration=6e-3), ["sim"]),
    "flip_blend": (lambda raw: raw["solver"].update(flip_blend=0.95), ["sim"]),
    "moving_collider": (lambda raw: raw.update(colliders=[{
        "type": "half_space", "point": [0.0, 0.1], "normal": [0.0, 1.0],
        "velocity": [0.0, 0.0]}]), ["sim"]),
    # at dt 1e-3: 2.5 and 0.4 steps per frame
    "frame_dt_between_steps": (lambda raw: raw["solver"].update(frame_dt=2.5e-3), ["sim"]),
    "frame_dt_under_one_step": (lambda raw: raw["solver"].update(frame_dt=4e-4), ["sim"]),
    # 4 frames over 6 steps without frame_dt
    "frames_not_dividing_steps": (lambda raw: raw["solver"].pop("frame_dt"),
                                  ["sim", "--frames", "4"]),
    # the overrides take only the scene's own spellings
    "mode_euler": (lambda raw: None, ["sim", "--mode", "euler"]),
    "transfer_mls": (lambda raw: None, ["sim", "--transfer", "mls"]),
    # keys that the block's type does not read
    "solid_theta_c": (lambda raw: raw["objects"][0]["material"].update(theta_c=0.025),
                      ["sim"]),
    "solid_gamma": (lambda raw: raw["objects"][0]["material"].update(gamma=7.0), ["sim"]),
    "solid_bulk": (lambda raw: raw["objects"][0]["material"].update(bulk=1e4), ["sim"]),
    "fluid_youngs": (lambda raw: raw["objects"][0].update(material={
        "type": "weakly_compressible_fluid", "density": 1000.0, "bulk": 1e4,
        "youngs": 1e4}), ["sim"]),
    "box_radius": (lambda raw: raw["objects"][0].update(shape={
        "type": "box", "min": [0.4, 0.4], "max": [0.6, 0.6], "radius": 0.1}), ["sim"]),
    "half_space_center": (lambda raw: raw.update(colliders=[{
        "type": "half_space", "point": [0.0, 0.1], "normal": [0.0, 1.0],
        "center": [0.5, 0.5]}]), ["sim"]),
    "half_space_radius": (lambda raw: raw.update(colliders=[{
        "type": "half_space", "point": [0.0, 0.1], "normal": [0.0, 1.0],
        "radius": 0.1}]), ["sim"]),
}

# what the error line must name, where a case has one key or token at fault
NAMED = {"infinite_frame_dt": "Infinity", "nan_dt": "NaN", "nan_spacing": "NaN",
         "nan_gravity": "NaN", "cubic_order": "'order'", "cfl": "'cfl'",
         "duration": "'duration'", "flip_blend": "'flip_blend'",
         "moving_collider": "'velocity'",
         "frame_dt_between_steps": "frame_dt", "frame_dt_under_one_step": "frame_dt",
         "frames_not_dividing_steps": "4 frames do not divide the scene's 6 steps",
         "mode_euler": "'euler'", "transfer_mls": "'mls'",
         "solid_theta_c": "fixed_corotated material does not read 'theta_c'",
         "solid_gamma": "fixed_corotated material does not read 'gamma'",
         "solid_bulk": "fixed_corotated material does not read 'bulk'",
         "fluid_youngs": "weakly_compressible_fluid material does not read 'youngs'",
         "box_radius": "box shape does not read 'radius'",
         "half_space_center": "half_space collider does not read 'center'",
         "half_space_radius": "half_space collider does not read 'radius'"}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_exit_2_with_an_error_line(case, tmp_path, capsys):
    edit, args = MALFORMED[case]
    path = tmp_path / "scene.json"
    scene = str(path) if edit is None else _variant(path, edit)
    try:
        rc = main([args[0], scene] + args[1:])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err
    assert NAMED.get(case, "") in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_runtime_blowup_is_exit_3(tmp_path, capsys):
    wild = json.loads(json.dumps(SCENE))
    # extreme stiffness with a huge step makes the explicit update blow up
    wild["objects"][0]["material"]["youngs"] = 1e12
    wild["objects"][0]["velocity"] = [0.0, -80.0]
    wild["solver"] = {"dt": 5e-3, "steps": 400}
    p = tmp_path / "wild.json"
    p.write_text(json.dumps(wild))
    rc = main(["sim", str(p)])
    assert rc == 3
    assert "failure" in capsys.readouterr().err


def test_parse_levels():
    assert _parse_levels("4..6") == [16, 32, 64]
    with pytest.raises(SceneError):
        _parse_levels("6")
    with pytest.raises(SceneError):
        _parse_levels("7..4")


def test_converge_command(tmp_path, capsys):
    spin = json.loads(json.dumps(SCENE))
    spin["gravity"] = [0.0, 0.0]
    spin["objects"][0]["velocity"] = [0.0, 0.0]
    spin["objects"][0]["angular_velocity"] = 3.0
    spin["solver"] = {"dt": 1e-3, "steps": 20}
    p = tmp_path / "spin.json"
    p.write_text(json.dumps(spin))
    table = tmp_path / "table.csv"
    rc = main(["converge", str(p), "--levels", "3..4", "--bench-level", "5",
               "--out", str(table)])
    assert rc == 0
    assert "slope" in capsys.readouterr().out
    assert table.exists()


def test_converge_bad_bench_is_exit_2(scene_path, capsys):
    rc = main(["converge", str(scene_path), "--levels", "4..6",
               "--bench-level", "6"])
    assert rc == 2
    capsys.readouterr()


def test_verify_command(capsys):
    rc = main(["verify", "--only", "transfer_identity", "--only",
               "rigid_silence"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("criterion") and " PASS " in line
               for line in lines)


def test_verify_prints_each_line_as_its_check_finishes(monkeypatch, capsys):
    seen = []

    def probe():
        seen.append(capsys.readouterr().out)
        return {"calls": len(seen)}

    monkeypatch.setitem(verify.CHECKS, "probe",
                        verify.Check(12, "probe", "probe", 5.0, probe, {"calls": (1, 1)}))
    assert main(["verify", "--only", "transfer_identity", "--only", "probe"]) == 0
    assert seen[0].startswith("criterion 10 ") and " PASS " in seen[0]
    assert capsys.readouterr().out.startswith("criterion 12 probe")
    # an unknown name is refused before any check runs
    assert main(["verify", "--only", "probe", "--only", "nope"]) == 2
    assert len(seen) == 1 and capsys.readouterr().out == ""


def test_verify_unknown_check_is_exit_2(capsys):
    rc = main(["verify", "--only", "nope"])
    assert rc == 2
    capsys.readouterr()
