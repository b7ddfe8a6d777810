import dataclasses
import json
import re
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from aulmpm.errors import SceneError
from aulmpm.scene import (_TYPE_KEYS, SolverConfig, bundled_scene, load_scene,
                          sample_shape)


def _minimal(**overrides):
    raw = {
        "grid": {"origin": [0.0, 0.0], "size": [1.0, 1.0], "cells": [16, 16]},
        "solver": {"dt": 1e-3, "steps": 5},
        "objects": [{
            "shape": {"type": "box", "min": [0.3, 0.3], "max": [0.7, 0.7]},
            "spacing": 0.05,
            "material": {"type": "fixed_corotated", "density": 1000.0,
                         "youngs": 1e4, "poisson": 0.3},
        }],
    }
    raw.update(overrides)
    return raw


def test_box_lattice_count():
    scene = load_scene(_minimal())
    pts = sample_shape(scene.objects[0].shape, 0.05)
    assert pts.shape == (64, 2)  # (0.4 / 0.05)^2
    assert pts.min() >= 0.3 and pts.max() <= 0.7


def test_disk_count_independent_of_grid():
    shape = {"type": "disk", "center": [0.5, 0.5], "radius": 0.2}
    n = sample_shape(shape, 0.01).shape[0]
    assert abs(n - np.pi * 0.04 / 1e-4) / n < 0.02
    # count must not depend on any grid quantity, only shape and spacing
    assert sample_shape(shape, 0.01).shape[0] == n


def test_jitter_stays_bounded_and_reproducible():
    shape = {"type": "box", "min": [0.3, 0.3], "max": [0.6, 0.6]}
    a = sample_shape(shape, 0.05, jitter=0.8, rng=np.random.default_rng(9))
    b = sample_shape(shape, 0.05, jitter=0.8, rng=np.random.default_rng(9))
    plain = sample_shape(shape, 0.05)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - plain).max() <= 0.4 * 0.05 + 1e-15


def test_defaults_fill_in():
    scene = load_scene(_minimal())
    assert scene.solver.integrator == "explicit"
    assert scene.solver.transfer == "least_squares"
    assert scene.solver.mode == "adaptive"
    np.testing.assert_array_equal(scene.gravity, [0.0, 0.0])
    assert scene.objects[0].name == "object0"
    assert scene.dx == pytest.approx(1.0 / 16.0)


def _schema():
    return json.loads(resources.files("aulmpm").joinpath("data/scene.schema.json").read_text())


def test_schema_solver_keys_are_the_solver_config_fields():
    # the loader passes the solver block to SolverConfig as it stands, so a
    # key the schema admits must be a field, and every field a key
    keys = set(_schema()["properties"]["solver"]["properties"])
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert keys == fields


def test_bundled_schema_is_a_valid_draft7_schema():
    # load_scene builds its validator once and so never re-checks the schema
    jsonschema.Draft7Validator.check_schema(_schema())


def test_type_keys_are_the_schema_keys_of_their_block():
    obj = _schema()["properties"]["objects"]["items"]["properties"]
    blocks = [obj["material"], obj["shape"],
              _schema()["properties"]["colliders"]["items"]]
    for block in blocks:
        types = block["properties"]["type"]["enum"]
        keys = {"type"}.union(*(need + may for need, may in map(_TYPE_KEYS.get, types)))
        assert keys == set(block["properties"])
    assert sum(len(b["properties"]["type"]["enum"]) for b in blocks) == len(_TYPE_KEYS)


def test_every_schema_key_is_documented():
    keys = set()
    stack = [_schema()]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            keys |= set(node.get("properties", {}))
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = sorted(k for k in keys if not re.search(rf"\b{re.escape(k)}\b", readme))
    assert not missing


def test_integer_keys_written_as_floats_load_as_integers():
    raw = _minimal()
    raw["solver"] = {"dt": 1e-3, "steps": 5.0, "seed": 3.0}
    sol = load_scene(raw).solver
    assert (sol.steps, sol.seed) == (5, 3)
    assert type(sol.steps) is int and type(sol.seed) is int


def test_unknown_key_rejected_with_path():
    raw = _minimal()
    raw["objects"][0]["materiel"] = {}
    with pytest.raises(SceneError, match="objects/0"):
        load_scene(raw)


def test_unknown_material_kind_rejected():
    raw = _minimal()
    raw["objects"][0]["material"]["type"] = "rubber"
    with pytest.raises(SceneError, match="material"):
        load_scene(raw)


def test_fluid_requires_bulk():
    raw = _minimal()
    raw["objects"][0]["material"] = {"type": "weakly_compressible_fluid",
                                     "density": 1000.0}
    with pytest.raises(SceneError, match="bulk"):
        load_scene(raw)


def test_object_near_edge_rejected():
    raw = _minimal()
    raw["objects"][0]["shape"] = {"type": "box", "min": [0.01, 0.3],
                                  "max": [0.4, 0.7]}
    with pytest.raises(SceneError, match="domain edge"):
        load_scene(raw)


def test_non_square_cells_rejected():
    raw = _minimal()
    raw["grid"]["size"] = [1.0, 2.0]
    with pytest.raises(SceneError, match="square"):
        load_scene(raw)


@pytest.mark.parametrize("key", ["origin", "size", "cells"])
def test_three_component_grid_vectors_rejected(key):
    raw = _minimal()
    raw["grid"][key] = raw["grid"][key] + raw["grid"][key][:1]
    with pytest.raises(SceneError, match=f"grid/{key}"):
        load_scene(raw)


def test_three_dimensional_scene_rejected():
    raw = _minimal(gravity=[0.0, -9.81, 0.0])
    raw["grid"] = {"origin": [0.0, 0.0, 0.0], "size": [1.0, 1.0, 1.0],
                   "cells": [16, 16, 16]}
    raw["objects"][0]["shape"] = {"type": "box", "min": [0.3, 0.3, 0.3],
                                  "max": [0.7, 0.7, 0.7]}
    with pytest.raises(SceneError):
        load_scene(raw)


NAN = float("nan")


@pytest.mark.parametrize("edit, token, where", [
    (lambda raw: raw.update(gravity=[0.0, NAN]), "NaN", "gravity/1"),
    (lambda raw: raw["solver"].update(dt=NAN), "NaN", "solver/dt"),
    (lambda raw: raw["objects"][0]["material"].update(youngs=NAN), "NaN",
     "objects/0/material/youngs"),
    (lambda raw: raw["objects"][0]["shape"].update(max=[0.7, float("inf")]), "Infinity",
     "objects/0/shape/max/1"),
    (lambda raw: raw.update(gravity=[0.0, -float("inf")]), "-Infinity", "gravity/1"),
    (lambda raw: raw["solver"].update(dt=np.float32("nan")), "NaN", "solver/dt"),
], ids=["nan_gravity", "nan_dt", "nan_youngs", "inf_box_max", "minus_inf_gravity",
        "numpy_float32_nan_dt"])
def test_non_finite_numbers_in_a_dict_scene_are_rejected(edit, token, where):
    raw = _minimal()
    edit(raw)
    with pytest.raises(SceneError, match=f"non-finite number {token} at {where};"):
        load_scene(raw)


def test_missing_file_is_scene_error(tmp_path):
    with pytest.raises(SceneError, match="cannot read"):
        load_scene(tmp_path / "nope.json")


def test_invalid_json_is_scene_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(SceneError, match="not valid JSON"):
        load_scene(p)


def test_scene_roundtrip_through_file(tmp_path):
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(_minimal()))
    scene = load_scene(p)
    assert scene.cells.tolist() == [16, 16]


def test_bundled_scenes_load():
    for name in ("falling_ball", "rotating_plate", "droplet"):
        scene = bundled_scene(name)
        assert scene.name == name
    with pytest.raises(SceneError, match="no bundled scene"):
        bundled_scene("missing")


def test_pinned_plate_particle_count():
    scene = bundled_scene("rotating_plate")
    obj = scene.objects[0]
    assert sample_shape(obj.shape, obj.spacing).shape[0] == 41943


def test_with_cells_changes_resolution_only():
    scene = bundled_scene("rotating_plate")
    coarse = scene.with_cells(16)
    assert coarse.dx == pytest.approx(1.0 / 16.0)
    assert coarse.objects is scene.objects
    # a 2x1 domain keeps its shape: the level counts cells along x
    wide = load_scene(_minimal(grid={"origin": [0.0, 0.0], "size": [2.0, 1.0],
                                     "cells": [32, 16]}))
    coarse = wide.with_cells(16)
    np.testing.assert_array_equal(coarse.cells, [16, 8])
    np.testing.assert_allclose(coarse.cells * coarse.dx, wide.size, rtol=1e-15)
    with pytest.raises(SceneError, match="7.5 cells along y"):
        wide.with_cells(15)
